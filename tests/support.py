"""Exhaustive property loops shared by the unit and acceptance tests, and
sabotaged step kernels."""

from partition_evolve import (Level, NoPredecessorError, Partition,
                              enumerate_oracle, evolve_m1, evolve_m2,
                              predecessor_m1, predecessor_m2, successors_m1,
                              successors_m2)


def duplicating(step):
    """``step`` with its first new head repeated; from weight 1 to 2 that
    is the single part 2."""
    def duplicated(heads):
        new, second = step(heads)
        return new + new[:1], second + 1
    return duplicated


def overweight(step):
    """``step`` with the first part of its first new head raised by one;
    from weight 1 to 2 that makes the single part 3."""
    def raised(heads):
        new, second = step(heads)
        return [chr(ord(head[0]) + 1) + head[1:]
                for head in new[:1]] + new[1:], second
    return raised


def assert_m1_bijection(max_n: int) -> None:
    """Successor sets of distinct partitions of n are disjoint, cover the
    partitions of n+1 exactly, and invert through predecessor_m1, for all
    n below max_n."""
    current = enumerate_oracle(0, cap=max_n)
    for n in range(max_n):
        nxt = enumerate_oracle(n + 1, cap=max_n)
        produced = {}
        for member in current.partitions:
            for successor in successors_m1(member):
                assert successor not in produced, (
                    f"n={n}: {produced[successor]} and {member} "
                    f"both produce {successor}")
                produced[successor] = member
        assert produced.keys() == set(nxt.partitions), f"n={n}"
        for successor, source in produced.items():
            assert predecessor_m1(successor) == source, f"n={n}: {successor}"
        current = nxt


def assert_m2_bijection(max_n: int) -> None:
    """As assert_m1_bijection, except the single-part partition of n+1 is
    excluded from coverage (it must never arise from the rule, and asking
    for its predecessor must be refused)."""
    current = enumerate_oracle(0, cap=max_n)
    for n in range(max_n):
        nxt = enumerate_oracle(n + 1, cap=max_n)
        produced = {}
        for member in current.partitions:
            for successor in successors_m2(member):
                assert successor not in produced, (
                    f"n={n}: {produced[successor]} and {member} "
                    f"both produce {successor}")
                produced[successor] = member
        expected = set(nxt.partitions)
        if n + 1 >= 2:
            single = Partition((n + 1,))
            assert single not in produced, f"n={n}: rule produced {single}"
            try:
                predecessor_m2(single)
            except NoPredecessorError:
                pass
            else:
                raise AssertionError(f"n={n}: {single} must have "
                                     "no predecessor")
            expected.discard(single)
        assert produced.keys() == expected, f"n={n}"
        for successor, source in produced.items():
            assert predecessor_m2(successor) == source, f"n={n}: {successor}"
        current = nxt


def assert_method_equivalence(max_n: int) -> None:
    """Both evolutions from the empty seed match the enumerator at every
    weight up to max_n."""
    level_m1 = Level.seed("method1")
    level_m2 = Level.seed("method2")
    for n in range(max_n + 1):
        if n > 0:
            level_m1 = evolve_m1(level_m1, n)
            level_m2 = evolve_m2(level_m2, n)
        reference = enumerate_oracle(n, cap=max_n).raw_members()
        assert level_m1.raw_members() == reference, f"n={n}: method1"
        assert level_m2.raw_members() == reference, f"n={n}: method2"
