"""First successor rule: examples, bijection properties, evolution."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partition_evolve import (Kind, Level, NoPredecessorError, Partition,
                              _pure, classify_m1, count_oracle,
                              enumerate_oracle, evolve_m1, predecessor_m1,
                              successors_m1, tagged_successors_m1,
                              write_snapshot)
from partition_evolve import level as level_module
from partition_evolve import method1
from partition_evolve.engine import run_evolution
from partition_evolve.level import write_text
from partition_evolve.method1 import evolve_m1_chunks

from golden import M1_AUGMENTED_6, PARTITIONS_5, PARTITIONS_6

from support import assert_m1_bijection, duplicating


def _set(*texts):
    return frozenset(Partition([int(x) for x in t.split("+")]) for t in texts)


def test_successor_examples():
    assert successors_m1(Partition([2, 2, 1])) == _set("2+2+1+1", "2+2+2")
    assert successors_m1(Partition([3, 1, 1])) == _set("3+1+1+1")
    assert successors_m1(Partition([5])) == _set("5+1", "6")
    assert successors_m1(Partition()) == _set("1")


def test_tagged_successors_name_their_rule():
    pairs = tagged_successors_m1(Partition([5]))
    assert [(str(s), tag) for s, tag in pairs] == [
        ("5+1", "AddedUnit"), ("6", "Augmented")]
    pairs = tagged_successors_m1(Partition([3, 1, 1]))
    assert [(str(s), tag) for s, tag in pairs] == [("3+1+1+1", "AddedUnit")]


def test_predecessor_examples():
    assert predecessor_m1(Partition([3, 2, 1])) == Partition([3, 2])
    assert predecessor_m1(Partition([6])) == Partition([5])
    assert predecessor_m1(Partition([2, 2, 2])) == Partition([2, 2, 1])
    assert predecessor_m1(Partition([1])) == Partition()
    with pytest.raises(NoPredecessorError):
        predecessor_m1(Partition())


def test_bijection_up_to_30():
    assert_m1_bijection(30)


def test_successor_count_matches_kind_up_to_30():
    for n in range(31):
        for p in enumerate_oracle(n, cap=30).partitions:
            expected = 1 if classify_m1(p) is Kind.FIRST else 2
            assert len(successors_m1(p)) == expected, str(p)


def test_every_nonempty_partition_is_its_predecessors_successor():
    for n in range(1, 31):
        for p in enumerate_oracle(n, cap=30).partitions:
            assert p in successors_m1(predecessor_m1(p)), str(p)


@given(st.lists(st.integers(1, 30), max_size=20))
def test_roundtrip_property(raw):
    p = Partition(raw)
    for s in successors_m1(p):
        assert predecessor_m1(s) == p


def test_evolve_reproduces_golden_levels():
    level5 = evolve_m1(Level.seed("method1"), 5)
    assert [str(p) for p in level5.partitions] == PARTITIONS_5
    level6 = evolve_m1(level5, 6)
    assert [str(p) for p in level6.partitions] == PARTITIONS_6
    assert level6.tag_counts() == {"AddedUnit": 7, "Augmented": 4}
    augmented = [str(p) for p, tag in zip(level6.partitions, level6.tags)
                 if tag == "Augmented"]
    assert augmented == sorted(M1_AUGMENTED_6,
                               key=PARTITIONS_6.index)


def test_evolve_count_matches_oracle_up_to_40():
    level = Level.seed("method1")
    for n in range(1, 41):
        level = evolve_m1(level, n)
        assert len(level) == count_oracle(n), f"n={n}"


def _assert_written_as_listed(start, target_n):
    """The level of ``target_n`` grown from ``start`` is the oracle's, and
    its writers write the oracle's text and its snapshot tagged by
    ``rule_tags``, with no Level of ``target_n`` built for the text."""
    expected = enumerate_oracle(target_n)
    listed, tagged = io.StringIO(), io.StringIO()
    write_text(expected, listed)
    write_snapshot(Level(target_n, expected.raw_members(), "method1"), tagged)
    grown = evolve_m1_chunks(start, target_n)
    assert (grown.n, grown.method_tag) == (target_n, "method1")
    text, snapshot = io.StringIO(), io.StringIO()
    built = []
    init = Level.__init__

    def counted(self, n, *args):
        built.append(n)
        init(self, n, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Level, "__init__", counted)
        write_text(grown, text)
    assert text.getvalue() == listed.getvalue(), (start.n, target_n)
    assert target_n not in built or isinstance(grown, Level)
    assert write_snapshot(grown, snapshot) == len(expected)
    assert snapshot.getvalue() == tagged.getvalue(), (start.n, target_n)
    assert evolve_m1(start, target_n).raw_members() == (
        expected.raw_members())


def test_assembly_is_the_oracle_level_from_every_start():
    # From the oracle's level of every weight n < N <= 30, and from the
    # seed up to 40: the prefixes and table suffixes, read in level k's
    # order, are level N in canonical order, and the blocks are written
    # as the oracle's level is.
    for target_n in range(1, 31):
        for n in range(1, target_n):
            _assert_written_as_listed(enumerate_oracle(n), target_n)
    for target_n in range(41):
        _assert_written_as_listed(Level.seed("method1"), target_n)


def test_evolution_enumerates_nothing(monkeypatch):
    expected = enumerate_oracle(35).raw_members()

    def never(n):
        raise AssertionError("the enumerator was called")

    monkeypatch.setattr(_pure, "enumerate_level", never)
    assert evolve_m1(Level.seed("method1"), 35).raw_members() == expected


def test_a_single_part_grown_fewer_weights_than_itself_counts_alike():
    # The lemma behind the progress lines of unread tables: for l >= s,
    # T_l grown s weights holds exactly the partitions of l + s whose
    # first part is at least l, the sum of P(j) for j <= s of them
    # whatever l is.  The counts come from the oracle, which shares no
    # code with step_m1.
    for s in range(10):
        expected = sum(count_oracle(j) for j in range(s + 1))
        for last in range(max(s, 1), 30):
            table = run_evolution(Level(last, [chr(last)], "method1"),
                                  last + s, method_tag="method1",
                                  step=_pure.step_m1)
            held = [member for member in enumerate_oracle(last + s)
                    .raw_members() if ord(member[0]) >= last]
            assert sorted(table, reverse=True) == held, (last, s)
            assert len(held) == expected, (last, s)


@pytest.mark.parametrize("start_n,target_n,tables", [(0, 60, 23),
                                                      (38, 50, 20)])
def test_the_tables_grown_are_the_last_parts_of_level_k(
        monkeypatch, start_n, target_n, tables):
    # k = 45 and 38: the last parts 1..k/2 and the single part k.
    grown = []

    def counted(start, *args, **kwargs):
        grown.append(start)
        return run_evolution(start, *args, **kwargs)

    monkeypatch.setattr(method1, "run_evolution", counted)
    start = (enumerate_oracle(start_n) if start_n
             else Level.seed("method1"))
    blocks = evolve_m1_chunks(start, target_n)
    level_k = enumerate_oracle(target_n - target_n // 4).raw_members()
    lasts = [table.raw_members()[0] for table in grown[1:]]
    assert lasts == list(dict.fromkeys(member[-1] for member in level_k))
    assert len(lasts) == len(blocks.tables) == tables


def test_a_faulty_level_is_refused_before_it_is_assembled(monkeypatch):
    # Under a kernel that repeats a head, the blocks of weight 30 hold
    # many times P(30) members.  The certificate fails, and the chunked
    # walk refuses at its first bad chunk: only a small part of the blocks
    # is ever assembled.
    monkeypatch.setattr(_pure, "step_m1", duplicating(_pure.step_m1))
    assemble = level_module._assemble
    blocks = evolve_m1_chunks(Level.seed("method1"), 30)
    whole = len(assemble(blocks.members, blocks.tables, blocks.cuts))
    assembled = []

    def counted(*args):
        members = assemble(*args)
        assembled.append(len(members))
        return members

    monkeypatch.setattr(level_module, "_assemble", counted)
    with pytest.raises(ValueError, match="out of canonical order or "
                       "duplicated near 30$"):
        evolve_m1(Level.seed("method1"), 30)
    assert 0 < sum(assembled) * 10 < whole
