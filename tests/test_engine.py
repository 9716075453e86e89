"""Evolution loop mechanics: duplicate refusal, progress reporting, and
provenance derived from the parts."""

from operator import lt

import pytest

from partition_evolve import (Level, Partition, _pure, enumerate_oracle,
                              evolve_m1, evolve_m2, tagged_successors_m1,
                              tagged_successors_m2)
from partition_evolve.core import decode_member, encode_parts
from partition_evolve.engine import grown_members, split_heads
from partition_evolve.level import TAG_ADDED_UNIT

from support import duplicating


def test_identity_evolution_returns_the_start_level():
    level = evolve_m1(Level.seed("method1"), 9)
    assert evolve_m1(level, 9) is level


def test_downward_evolution_is_rejected():
    level = evolve_m1(Level.seed("method1"), 4)
    with pytest.raises(ValueError, match="downward"):
        evolve_m1(level, 2)


def test_check_mode_passes_on_honest_kernels():
    # The level's own validation is the one duplicate check.
    level = evolve_m2(Level.seed("method2"), 10)
    assert len(level) == 42


def test_without_check_a_duplicate_surfaces_at_level_construction(monkeypatch):
    monkeypatch.setattr(_pure, "step_m1", duplicating(_pure.step_m1))
    with pytest.raises(ValueError, match="order or duplicated"):
        evolve_m1(Level.seed("method1"), 2)


def test_progress_reports_every_level_including_the_start():
    seen = []
    evolve_m2(Level.seed("method2"), 3,
              progress=lambda n, counts: seen.append((n, counts)))
    assert seen == [
        (0, {"Seed": 1}),
        (1, {"AddedUnit": 1}),
        (2, {"AddedUnit": 1, "Explicit": 1}),
        (3, {"AddedUnit": 2, "Explicit": 1}),
    ]


@pytest.mark.parametrize("evolve,method_tag,tagged_successors", [
    (evolve_m1, "method1", tagged_successors_m1),
    (evolve_m2, "method2", tagged_successors_m2),
])
def test_derived_tags_match_the_per_partition_rules(evolve, method_tag,
                                                    tagged_successors):
    # The kernels record no provenance; the level derives it from the
    # parts.  Pin that derivation against the per-partition rules, which
    # share no code with the kernels, applied to the oracle's level.
    for n in range(1, 26):
        expected = {}
        for member in enumerate_oracle(n - 1).partitions:
            for successor, tag in tagged_successors(member):
                expected[successor] = tag
        if method_tag == "method2" and n >= 2:
            expected[Partition((n,))] = "Explicit"
        level = evolve(Level.seed(method_tag), n)
        assert level.tags == tuple(expected[member]
                                   for member in level.partitions), n


@pytest.mark.parametrize("evolve,step", [
    (evolve_m1, "step_m1"), (evolve_m2, "step_m2")])
def test_grown_members_sort_into_the_evolved_level(evolve, step):
    for n in range(1, 13):
        start = enumerate_oracle(n - 1)
        previous = start.raw_members()
        new, _ = getattr(_pure, step)(split_heads(n - 1, previous))
        members = grown_members(n - 1, previous, [new])
        assert sorted(members, reverse=True) == \
            evolve(start, n).raw_members(), n


def test_grown_members_renders_several_weights_and_pops_them():
    start = enumerate_oracle(3).raw_members()
    heads = split_heads(3, start)
    new = []
    for _ in range(3):
        new.append(_pure.step_m1(heads + new)[0])
    members = grown_members(3, start, new)
    assert new == []
    assert members[:len(start)] == [m + "\x01" * 3 for m in start]
    assert sorted(members, reverse=True) == enumerate_oracle(6).raw_members()


def test_grown_members_of_no_new_weights_are_the_members():
    # verify grows level 0 from itself this way.
    for n in (0, 1, 7):
        members = enumerate_oracle(n).raw_members()
        assert grown_members(n, members, []) == members


@pytest.mark.parametrize("step", ["step_m1", "step_m2"])
def test_grown_members_reach_the_sort_as_few_runs(step):
    # A speed guard: the kernels' order makes the grown level one sorted
    # run per (weight, last part), which the sort merges.  Heads kept in
    # last-part order alone gave 3,718 ascents here.
    heads = [[""]]
    for _ in range(30):
        heads.append(getattr(_pure, step)(heads)[0])
    groups = sum(len({head[-1] for head in group}) for group in heads[1:])
    grown = grown_members(0, [""], heads[1:])
    assert sum(map(lt, grown, grown[1:])) <= groups == 225


@pytest.mark.parametrize("step,tagged_successors", [
    ("step_m1", tagged_successors_m1), ("step_m2", tagged_successors_m2)])
def test_one_member_steps_grow_its_per_partition_successors(
        step, tagged_successors):
    # verify names the producer of a new head by stepping each member of
    # level n alone; its second block must be that member's successors
    # under the per-partition rule, less the appended-unit one.
    for n in range(16):
        for member in enumerate_oracle(n).raw_members():
            new, second = getattr(_pure, step)(split_heads(n, [member]))
            expected = [encode_parts(successor.parts)
                        for successor, tag in tagged_successors(
                            Partition(decode_member(member)))
                        if tag != TAG_ADDED_UNIT]
            assert new[len(new) - second:] == expected, (n, member)
